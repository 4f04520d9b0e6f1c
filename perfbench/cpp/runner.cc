#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "algebra/plan.h"
#include "core/auth_view.h"
#include "core/truman.h"
#include "core/update_auth.h"
#include "core/validity.h"
#include "exec/chunk.h"
#include "exec/exec_stats.h"
#include "exec/parallel.h"
#include "exec/scheduler.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "storage/table_data.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using fgac::core::EnforcementMode;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// Untimed closed loop before measuring, so caches fill and lazy columnar
/// snapshots exist.
constexpr double kWarmupSeconds = 2.0;

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

template <class F>
double TimeUs(F&& f) {
  Clock::time_point t0 = Clock::now();
  f();
  return UsSince(t0);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Executed Record(Stmt stmt, double ms,
                const fgac::Result<fgac::core::ExecResult>& r,
                const Template& t) {
  Executed e;
  e.ms = ms;
  if (r.ok()) {
    e.affected = r.value().affected_rows;
    if (t.op == Op::kRead) e.answer = FingerprintOf(r.value().relation);
  } else {
    e.code = r.status().code();
    e.error = r.status().message().substr(0, 160);
  }
  e.stmt = std::move(stmt);
  return e;
}

/// Latency samples by statement class, in milliseconds.
struct Classes {
  std::vector<double> all, read, reject, write;
  int64_t completed = 0;
};

Classes Classify(const std::vector<Executed>& executed,
                 const std::vector<Template>& templates) {
  Classes c;
  for (const Executed& e : executed) {
    const Template& t = templates[static_cast<size_t>(e.stmt.tmpl)];
    bool ok = e.code == fgac::StatusCode::kOk;
    bool refused = e.code == fgac::StatusCode::kNotAuthorized;
    c.all.push_back(e.ms);
    if (ok || refused) ++c.completed;
    if (t.verdict == Verdict::kRefuse) {
      if (refused) c.reject.push_back(e.ms);
    } else if (ok) {
      (t.op == Op::kRead ? c.read : c.write).push_back(e.ms);
    }
  }
  return c;
}

// --- Output ---------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Per-template latency percentiles, for the metadata line.
std::string TemplateSummaryJson(const std::vector<Executed>& executed,
                                const std::vector<Template>& templates) {
  std::vector<std::vector<double>> by(templates.size());
  for (const Executed& e : executed) {
    by[static_cast<size_t>(e.stmt.tmpl)].push_back(e.ms);
  }
  std::string out = "{";
  for (size_t t = 0; t < templates.size(); ++t) {
    if (t > 0) out += ", ";
    out += JsonString(templates[t].name) + ": {\"count\": " +
           std::to_string(by[t].size()) +
           ", \"p10_ms\": " + JsonNumber(Quantile(by[t], 0.1)) +
           ", \"p50_ms\": " + JsonNumber(Median(by[t])) +
           ", \"p90_ms\": " + JsonNumber(Quantile(by[t], 0.9)) + "}";
  }
  return out + "}";
}

std::string MetaJson(const RunOptions& opt, const Workload& wl, const Env& env,
                     size_t samples, const OracleReport& report,
                     int64_t attempted, const std::string& templates_json,
                     const std::string& accounting_json = "") {
  std::ostringstream o;
  o << "{\"meta\": {\"workload\": " << JsonString(opt.workload)
    << ", \"seed\": " << opt.seed << ", \"seconds\": " << JsonNumber(opt.seconds)
    << ", \"trace\": " << (opt.trace ? "true" : "false")
    << ", \"nproc\": " << HardwareThreads()
    << ", \"clients\": " << wl.clients()
    << ", \"engine_parallelism\": " << wl.parallelism()
    << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
    << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
    << ", \"commit\": " << JsonString(opt.commit)
    << ", \"latency_samples\": " << samples
    << ", \"supported_tail_percentile\": "
    << JsonNumber(SupportedTailPercentile(samples))
    << ", \"failed_frac\": "
    << JsonNumber(attempted > 0 ? static_cast<double>(report.failed()) /
                                      static_cast<double>(attempted)
                                : 0.0)
    << ", \"wrong_verdicts\": " << report.wrong_verdicts
    << ", \"wrong_answers\": " << report.wrong_answers
    << ", \"wrong_writes\": " << report.wrong_writes
    << ", \"unexpected_errors\": " << report.unexpected_errors
    << ", \"table_mismatches\": " << report.table_mismatches
    << ", \"sizes\": {";
  bool first = true;
  for (const auto& [k, v] : env.sizes) {
    o << (first ? "" : ", ") << JsonString(k) << ": " << v;
    first = false;
  }
  o << "}, \"templates\": " << templates_json;
  if (!accounting_json.empty()) o << ", \"accounting\": " << accounting_json;
  o << "}}";
  return o.str();
}

// --- Engine counters --------------------------------------------------------

struct Counters {
  uint64_t verdict_hits = 0, verdict_misses = 0;
  uint64_t stmt_hits = 0, stmt_misses = 0;
  uint64_t sched_wait_us = 0, sched_run_us = 0, sched_tasks = 0;
};

Counters ReadCounters(fgac::core::Database& db) {
  Counters c;
  fgac::common::MetricsSnapshot snap = db.metrics().Snapshot();
  auto counter = [&](const char* name) -> uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  c.verdict_hits = counter("validity.cache_hits");
  c.verdict_misses = counter("validity.cache_misses");
  c.stmt_hits = db.statement_cache().hits();
  c.stmt_misses = db.statement_cache().misses();
  fgac::exec::PipelineScheduler& sched = fgac::exec::PipelineScheduler::Shared();
  c.sched_wait_us = sched.total_task_queue_wait_us();
  c.sched_run_us = sched.total_task_run_us();
  c.sched_tasks = sched.tasks_dispatched();
  return c;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// --- Traced replay ----------------------------------------------------------

/// One timed call into a layer, caused by replaying statement `stmt`.
struct Span {
  uint64_t stmt = 0;
  std::string layer;
  double start_us = 0;
  double dur_us = 0;
};

struct LayerTotals {
  int64_t calls = 0;
  int64_t failed = 0;
  double busy_us = 0;
};

/// A template's share of the statement-time accounting: the statement p50
/// and, over the same statements, the p50 of each layer it pays for (0 where
/// a statement skipped the layer). unattributed = statement - sum of layers.
struct Accounting {
  size_t statements = 0;
  double statement_p50_us = 0;
  std::map<std::string, double> layer_p50_us;
  double unattributed_us = 0;
};

class TraceRecorder {
 public:
  static constexpr size_t kMaxSpans = 20000;

  explicit TraceRecorder(size_t num_templates) : by_template_(num_templates) {
    origin_ = Clock::now();
  }

  /// Times `f` as one call into `layer`; `f` returns false when the layer
  /// call failed.
  template <class F>
  double Call(const std::string& layer, F&& f) {
    Clock::time_point t0 = Clock::now();
    bool ok = f();
    double us = UsSince(t0);
    LayerTotals& tot = totals_[layer];
    ++tot.calls;
    tot.busy_us += us;
    if (!ok) ++tot.failed;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(
          {stmt_, layer,
           std::chrono::duration<double, std::micro>(t0 - origin_).count(),
           us});
    }
    return us;
  }

  void Sample(const std::string& metric, double v) { samples_[metric].push_back(v); }
  /// Records one replayed statement of template `tmpl`: its time and the
  /// time of each layer it paid for.
  void Account(int tmpl, double statement_us,
               const std::map<std::string, double>& paid) {
    TemplateTrace& t = by_template_[static_cast<size_t>(tmpl)];
    for (const auto& [layer, us] : paid) {
      std::vector<double>& v = t.layers[layer];
      v.resize(t.statement.size(), 0.0);  // earlier statements skipped it
      v.push_back(us);
    }
    t.statement.push_back(statement_us);
  }
  /// The same plan run at 1 thread and at nproc threads.
  void SpeedupSample(int tmpl, double serial_us, double wide_us) {
    TemplateTrace& t = by_template_[static_cast<size_t>(tmpl)];
    t.run_1_thread.push_back(serial_us);
    t.run_all_threads.push_back(wide_us);
  }
  void NextStatement() { ++stmt_; }

  double P50(const std::string& metric) const {
    auto it = samples_.find(metric);
    return it == samples_.end() ? 0.0 : Median(it->second);
  }
  void AddWait(const std::string& layer, double us) { waits_[layer] += us; }

  /// Median over templates of (median 1-thread run / median all-thread run).
  double ParallelSpeedup() const {
    std::vector<double> ratios;
    for (const TemplateTrace& t : by_template_) {
      double w = Median(t.run_all_threads);
      if (w > 0) ratios.push_back(Median(t.run_1_thread) / w);
    }
    return Median(ratios);
  }

  std::vector<Accounting> Accounts() const {
    std::vector<Accounting> out(by_template_.size());
    for (size_t i = 0; i < by_template_.size(); ++i) {
      const TemplateTrace& t = by_template_[i];
      Accounting& a = out[i];
      a.statements = t.statement.size();
      a.statement_p50_us = Median(t.statement);
      a.unattributed_us = a.statement_p50_us;
      for (const auto& [layer, v] : t.layers) {
        std::vector<double> all = v;
        all.resize(t.statement.size(), 0.0);  // later statements skipped it
        a.layer_p50_us[layer] = Median(all);
        a.unattributed_us -= a.layer_p50_us[layer];
      }
    }
    return out;
  }

  /// common.unattributed_us: the unattributed time of the template that
  /// holds the median replayed statement.
  double Unattributed() const {
    std::vector<std::pair<double, size_t>> timed;
    for (size_t t = 0; t < by_template_.size(); ++t) {
      for (double us : by_template_[t].statement) timed.push_back({us, t});
    }
    if (timed.empty()) return 0.0;
    auto mid = timed.begin() + static_cast<std::ptrdiff_t>((timed.size() - 1) / 2);
    std::nth_element(timed.begin(), mid, timed.end());
    return Accounts()[mid->second].unattributed_us;
  }

  std::string ToJson() const {
    std::ostringstream o;
    o << "\"layers\": {";
    bool first = true;
    for (const auto& [name, t] : totals_) {
      auto w = waits_.find(name);
      o << (first ? "" : ", ") << JsonString(name) << ": {\"calls\": "
        << t.calls << ", \"busy_us\": " << JsonNumber(t.busy_us)
        << ", \"wait_us\": " << JsonNumber(w == waits_.end() ? 0.0 : w->second)
        << ", \"failed\": " << t.failed << "}";
      first = false;
    }
    for (const auto& [name, w] : waits_) {
      if (totals_.count(name) != 0) continue;
      o << (first ? "" : ", ") << JsonString(name)
        << ": {\"calls\": 0, \"busy_us\": 0, \"wait_us\": " << JsonNumber(w)
        << ", \"failed\": 0}";
      first = false;
    }
    o << "}, \"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      o << (i > 0 ? ", " : "") << "{\"stmt\": " << s.stmt << ", \"name\": "
        << JsonString(s.layer) << ", \"parent\": "
        << (s.layer == "statement" ? "null" : "\"statement\"")
        << ", \"start_us\": " << JsonNumber(s.start_us)
        << ", \"dur_us\": " << JsonNumber(s.dur_us) << "}";
    }
    o << "]";
    return o.str();
  }

 private:
  struct TemplateTrace {
    std::vector<double> statement;
    std::map<std::string, std::vector<double>> layers;
    std::vector<double> run_1_thread, run_all_threads;
  };

  Clock::time_point origin_;
  uint64_t stmt_ = 0;
  std::map<std::string, LayerTotals> totals_;
  std::map<std::string, double> waits_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<TemplateTrace> by_template_;
  std::vector<Span> spans_;
};

/// Per-template accounting, for the metadata line and the trace file.
std::string AccountingJson(const std::vector<Accounting>& accounts,
                           const std::vector<Template>& templates) {
  std::ostringstream o;
  o << "{";
  for (size_t t = 0; t < templates.size(); ++t) {
    const Accounting& a = accounts[t];
    o << (t > 0 ? ", " : "") << JsonString(templates[t].name)
      << ": {\"statements\": " << a.statements
      << ", \"statement_p50_us\": " << JsonNumber(a.statement_p50_us)
      << ", \"layers_p50_us\": {";
    bool first = true;
    for (const auto& [layer, us] : a.layer_p50_us) {
      o << (first ? "" : ", ") << JsonString(layer) << ": " << JsonNumber(us);
      first = false;
    }
    o << "}, \"unattributed_us\": " << JsonNumber(a.unattributed_us) << "}";
  }
  o << "}";
  return o.str();
}

/// Replays one statement: the real call through its session, then each
/// layer through its public entry point on the same input and data state.
void TraceStatement(const Workload& wl, Env& env, Stmt stmt,
                    TraceRecorder& rec, std::vector<Executed>* executed) {
  const Template& t = wl.templates()[static_cast<size_t>(stmt.tmpl)];
  fgac::core::Database& db = *env.db;
  Principal& pr = env.principals[static_cast<size_t>(stmt.principal)];
  const fgac::core::SessionContext& ctx = pr.session->context();
  rec.NextStatement();

  Counters before = ReadCounters(db);
  fgac::Result<fgac::core::ExecResult> real =
      fgac::Status::Internal("not run");
  double real_us = rec.Call("statement", [&] {
    real = pr.session->Execute(stmt.sql);
    return real.ok() || real.status().code() == fgac::StatusCode::kNotAuthorized;
  });
  Counters after = ReadCounters(db);
  bool verdict_cached = after.verdict_hits > before.verdict_hits;
  bool accepted = real.ok();
  // The layers this statement paid for; each adds to its template's
  // accounting (a layer that a statement skips counts 0 there).
  std::map<std::string, double> paid;

  double parse = rec.Call("sql.parse", [&] {
    return fgac::sql::Parser::ParseStatement(stmt.sql).ok();
  });
  rec.Sample("sql.parse_us", parse);
  paid["sql.parse"] = parse;

  if (t.op == Op::kWrite) {
    fgac::core::UpdateAuthorizer auth(db.catalog(), ctx);
    double ua = rec.Call("core.update_auth", [&] {
      bool ok = true;
      for (const fgac::Row& row : stmt.write_rows) {
        auto r = stmt.is_delete ? auth.CheckDelete(stmt.table, row)
                                : auth.CheckInsert(stmt.table, row);
        ok = ok && r.ok();
      }
      return ok;
    });
    rec.Sample("core.update_auth_us", ua);
    paid["core.update_auth"] = ua;
    if (accepted) {
      double rest = real_us - parse - ua;
      rec.Sample("core.dml_rest_us", rest);
      paid["core.dml_rest"] = rest;
      // The first scan after a write rebuilds the table's columnar
      // snapshot; a one-row scan pays that rebuild and little else.
      const fgac::storage::TableData* data = db.state().GetTable(stmt.table);
      fgac::exec::DataChunk chunk;
      double build = rec.Call("storage.columnar_build",
                              [&] { return data->ScanChunk(0, 1, &chunk).ok(); });
      rec.Sample("storage.columnar_build_us", build);
    }
    rec.Account(stmt.tmpl, real_us, paid);
    executed->push_back(Record(std::move(stmt), real_us / 1000.0, real, t));
    return;
  }

  // Reads: EXECUTE statements are analysed through the SELECT they stand for.
  bool prepared = !stmt.equiv_select.empty();
  const std::string& select_sql = prepared ? stmt.equiv_select : stmt.sql;
  auto parsed = fgac::sql::Parser::ParseSelect(select_sql);
  if (!parsed.ok()) throw std::runtime_error("generated SQL does not parse");
  fgac::Result<fgac::algebra::PlanPtr> bound = fgac::Status::Internal("unbound");
  double bind = rec.Call("algebra.bind", [&] {
    bound = db.BindQuery(*parsed.value(), ctx);
    return bound.ok();
  });
  if (!bound.ok()) throw std::runtime_error("generated SQL does not bind");
  if (!prepared) {
    paid["algebra.bind"] = bind;
    rec.Sample("algebra.bind_us", bind);
  }
  fgac::algebra::PlanPtr plan = bound.value();

  if (pr.mode == EnforcementMode::kNonTruman) {
    fgac::Result<std::vector<fgac::core::InstantiatedView>> views =
        fgac::Status::Internal("none");
    double inst = rec.Call("core.instantiate", [&] {
      views = fgac::core::InstantiateAvailableViews(db.catalog(), ctx);
      return views.ok();
    });
    fgac::core::ValidityOptions vopts = db.options().validity;
    if (vopts.probe_parallelism == 0) {
      vopts.probe_parallelism = db.options().parallelism;
    }
    fgac::core::ValidityChecker checker(db.catalog(), &db.state(), vopts);
    fgac::Result<fgac::core::ValidityReport> report =
        fgac::Status::Internal("unchecked");
    double val = rec.Call("core.validity", [&] {
      report = checker.Check(plan, views.value());
      return report.ok();
    });
    rec.Sample("core.instantiate_us", inst);
    rec.Sample("core.validity_us", val);
    if (report.ok()) {
      rec.Sample("core.validity_memo_exprs",
                 static_cast<double>(report.value().memo_exprs));
      rec.Sample("core.validity_views_pruned",
                 static_cast<double>(report.value().views_pruned));
      rec.Sample("core.validity_c3_probes",
                 static_cast<double>(report.value().c3_probes));
    }
    if (!verdict_cached) {
      paid["core.instantiate"] = inst;
      paid["core.validity"] = val;
    }
  } else if (pr.mode == EnforcementMode::kTruman) {
    fgac::Result<fgac::algebra::PlanPtr> rewritten =
        fgac::Status::Internal("none");
    double tr = rec.Call("core.truman_rewrite", [&] {
      rewritten = fgac::core::TrumanRewrite(plan, db.catalog(), ctx);
      return rewritten.ok();
    });
    rec.Sample("core.truman_rewrite_us", tr);
    paid["core.truman_rewrite"] = tr;
    if (rewritten.ok()) plan = rewritten.value();
  }

  if (accepted) {
    auto row_count = [&db](const std::string& table) -> double {
      const fgac::storage::TableData* td = db.state().GetTable(table);
      return td == nullptr ? 1000.0 : static_cast<double>(td->num_rows());
    };
    fgac::Result<fgac::optimizer::OptimizeResult> best =
        fgac::Status::Internal("none");
    double opt = rec.Call("optimizer.optimize", [&] {
      best = fgac::optimizer::Optimize(plan, db.options().exec_expand, row_count);
      return best.ok();
    });
    if (!best.ok()) throw std::runtime_error("optimizer failed on a read");
    rec.Sample("optimizer.optimize_us", opt);
    rec.Sample("optimizer.memo_exprs",
               static_cast<double>(best.value().memo_exprs));
    paid["optimizer.optimize"] = opt;

    const fgac::algebra::PlanPtr& exec_plan = best.value().plan;
    size_t threads = db.options().parallelism;
    fgac::exec::ExecStats stats;
    fgac::Result<fgac::storage::Relation> rel = fgac::Status::Internal("none");
    double run = rec.Call("exec.run", [&] {
      rel = fgac::exec::ParallelExecutePlan(exec_plan, db.state(), threads,
                                            nullptr, &stats);
      return rel.ok();
    });
    rec.Sample("exec.run_us", run);
    paid["exec.run"] = run;
    if (rel.ok()) {
      uint64_t scanned = 0;
      std::vector<const fgac::algebra::Plan*> stack = {exec_plan.get()};
      while (!stack.empty()) {
        const fgac::algebra::Plan* node = stack.back();
        stack.pop_back();
        if (node->kind == fgac::algebra::PlanKind::kGet) {
          const fgac::exec::OpStats* s = stats.Find(node);
          if (s != nullptr) scanned += s->rows_out.load();
        }
        for (const auto& child : node->children) stack.push_back(child.get());
      }
      rec.Sample("exec.rows_in_per_row_out",
                 static_cast<double>(scanned) /
                     static_cast<double>(std::max<size_t>(1, rel.value().num_rows())));
    }
    // Serial against all-core execution of the same plan.
    size_t all = HardwareThreads();
    rec.SpeedupSample(
        stmt.tmpl,
        threads == 1 ? run : TimeUs([&] {
          (void)fgac::exec::ParallelExecutePlan(exec_plan, db.state(), 1);
        }),
        threads == all ? run : TimeUs([&] {
          (void)fgac::exec::ParallelExecutePlan(exec_plan, db.state(), all);
        }));

    if (!prepared) {
      // The session layer's own cost: the same warm statement through
      // Database::Execute and through Session::Execute, twice each in
      // alternating order, keeping the faster of each pair.
      auto direct = [&] {
        return rec.Call("server.direct_execute",
                        [&] { return db.Execute(stmt.sql, ctx).ok(); });
      };
      auto via_session = [&] {
        return TimeUs([&] { (void)pr.session->Execute(stmt.sql); });
      };
      double d1 = direct();
      double s1 = via_session();
      double s2 = via_session();
      double d2 = direct();
      rec.Sample("server.session_overhead_us",
                 std::min(s1, s2) - std::min(d1, d2));
    }
  }
  rec.Account(stmt.tmpl, real_us, paid);
  executed->push_back(Record(std::move(stmt), real_us / 1000.0, real, t));
}

void WriteTraceFile(const RunOptions& opt, const std::string& meta,
                    const std::vector<Metric>& metrics,
                    const TraceRecorder& rec) {
  std::filesystem::create_directories(opt.out_dir);
  std::string path = opt.out_dir + "/trace_" + opt.workload + "_seed" +
                     std::to_string(opt.seed) + ".json";
  std::ofstream f(path);
  f << "{" << meta.substr(1, meta.size() - 2) << ", \"metrics\": "
    << MetricsJson(metrics) << ", " << rec.ToJson() << "}\n";
}

}  // namespace

LoopOutput RunClosedLoop(const Workload& workload, Env& env,
                         std::vector<ClientStream>& streams, double seconds) {
  const std::vector<Template>& templates = workload.templates();
  std::shared_mutex writer_lock;
  std::vector<std::vector<Executed>> per_client(streams.size());
  std::vector<Clock::time_point> ends(streams.size());
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&](size_t c) {
    while (Clock::now() < deadline) {
      Step step = workload.Next(env, streams[c]);
      std::unique_lock<std::shared_mutex> exclusive(writer_lock, std::defer_lock);
      std::shared_lock<std::shared_mutex> shared(writer_lock, std::defer_lock);
      if (step.exclusive) {
        exclusive.lock();
      } else {
        shared.lock();
      }
      for (Stmt& st : step.stmts) {
        fgac::server::Session& session =
            *env.principals[static_cast<size_t>(st.principal)].session;
        Clock::time_point t0 = Clock::now();
        fgac::Result<fgac::core::ExecResult> r = session.Execute(st.sql);
        double ms = UsSince(t0) / 1000.0;
        const Template& t = templates[static_cast<size_t>(st.tmpl)];
        per_client[c].push_back(Record(std::move(st), ms, r, t));
      }
    }
    ends[c] = Clock::now();
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) threads.emplace_back(client, c);
  for (std::thread& th : threads) th.join();

  LoopOutput out;
  Clock::time_point end = *std::max_element(ends.begin(), ends.end());
  out.wall_seconds = std::chrono::duration<double>(end - start).count();
  for (auto& v : per_client) {
    for (Executed& e : v) out.executed.push_back(std::move(e));
  }
  return out;
}

int RunBenchmark(const RunOptions& opt, std::ostream& out) {
  std::unique_ptr<Workload> wl = MakeWorkload(opt.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::vector<Template>& templates = wl->templates();
  if (static_cast<size_t>(wl->clients()) > HardwareThreads()) {
    std::fprintf(stderr, "client threads exceed nproc\n");
    return 2;
  }

  // Set-up, repeated; the last environment is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    Clock::time_point t0 = Clock::now();
    env = wl->Setup(opt.seed);
    setup_s.push_back(UsSince(t0) / 1e6);
  }
  std::map<std::string, Fingerprint> tables = WrittenTableFingerprints(*env);
  std::vector<ClientStream> streams;
  for (int c = 0; c < wl->clients(); ++c) streams.emplace_back(opt.seed, c);
  (void)RunClosedLoop(*wl, *env, streams, kWarmupSeconds);

  if (!opt.trace) {
    LoopOutput run = RunClosedLoop(*wl, *env, streams, opt.seconds);
    double rss = PeakRssMb();
    OracleReport report = CheckOutcomes(*env, templates, run.executed, tables);
    Classes c = Classify(run.executed, templates);
    int64_t attempted = static_cast<int64_t>(run.executed.size());
    double failed_frac = attempted > 0 ? static_cast<double>(report.failed()) /
                                             static_cast<double>(attempted)
                                       : 1.0;
    std::vector<Metric> metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"stmts_per_s", static_cast<double>(c.completed) / run.wall_seconds,
         "stmt/s"},
        {"latency_p50_ms", Quantile(c.all, 0.50), "ms"},
        {"latency_p95_ms", Quantile(c.all, 0.95), "ms"},
        {"read_p50_ms", Median(c.read), "ms"},
        {"reject_p50_ms", Median(c.reject), "ms"},
        {"write_p50_ms", Median(c.write), "ms"},
        {"peak_rss_mb", rss, "MB"},
        {"success_frac", 1.0 - failed_frac, "ratio"},
    };
    for (const std::string& s : report.samples) {
      std::fprintf(stderr, "oracle: %s\n", s.c_str());
    }
    out << MetaJson(opt, *wl, *env, c.all.size(), report, attempted,
                    TemplateSummaryJson(run.executed, templates))
        << "\n";
    out << "{\"correct\": " << (report.failed() == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted
        << ", \"failed\": " << report.failed()
        << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
    return 0;
  }

  // Traced run: the closed loop for the first half (engine counters under
  // the workload's real concurrency, and the untraced p50 for comparison),
  // then a single-threaded replay that times every layer for the second.
  double half = opt.seconds / 2.0;
  Counters c0 = ReadCounters(*env->db);
  LoopOutput phase_a = RunClosedLoop(*wl, *env, streams, half);
  Counters c1 = ReadCounters(*env->db);

  TraceRecorder rec(templates.size());
  std::vector<Executed> phase_b;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(half));
  for (size_t i = 0; Clock::now() < deadline; ++i) {
    ClientStream& s = streams[i % streams.size()];
    Step step = wl->Next(*env, s);
    for (Stmt& st : step.stmts) {
      TraceStatement(*wl, *env, std::move(st), rec, &phase_b);
    }
  }
  rec.AddWait("exec.scheduler", static_cast<double>(c1.sched_wait_us - c0.sched_wait_us));

  std::vector<Executed> all = std::move(phase_a.executed);
  std::vector<double> untraced_ms;
  for (const Executed& e : all) untraced_ms.push_back(e.ms);
  std::vector<double> traced_ms;
  for (Executed& e : phase_b) {
    traced_ms.push_back(e.ms);
    all.push_back(std::move(e));
  }
  OracleReport report = CheckOutcomes(*env, templates, all, tables);

  uint64_t tasks = c1.sched_tasks - c0.sched_tasks;
  std::vector<Metric> metrics = {
      {"sql.parse_us", rec.P50("sql.parse_us"), "us"},
      {"algebra.bind_us", rec.P50("algebra.bind_us"), "us"},
      {"core.instantiate_us", rec.P50("core.instantiate_us"), "us"},
      {"core.validity_us", rec.P50("core.validity_us"), "us"},
      {"core.validity_memo_exprs", rec.P50("core.validity_memo_exprs"), "count"},
      {"core.validity_views_pruned", rec.P50("core.validity_views_pruned"),
       "count"},
      {"core.validity_c3_probes", rec.P50("core.validity_c3_probes"), "count"},
      {"core.verdict_cache_hit_ratio",
       Ratio(c1.verdict_hits - c0.verdict_hits,
             (c1.verdict_hits - c0.verdict_hits) +
                 (c1.verdict_misses - c0.verdict_misses)),
       "ratio"},
      {"core.stmt_cache_hit_ratio",
       Ratio(c1.stmt_hits - c0.stmt_hits,
             (c1.stmt_hits - c0.stmt_hits) + (c1.stmt_misses - c0.stmt_misses)),
       "ratio"},
      {"core.truman_rewrite_us", rec.P50("core.truman_rewrite_us"), "us"},
      {"core.update_auth_us", rec.P50("core.update_auth_us"), "us"},
      {"core.dml_rest_us", rec.P50("core.dml_rest_us"), "us"},
      {"optimizer.optimize_us", rec.P50("optimizer.optimize_us"), "us"},
      {"optimizer.memo_exprs", rec.P50("optimizer.memo_exprs"), "count"},
      {"exec.run_us", rec.P50("exec.run_us"), "us"},
      {"exec.rows_in_per_row_out", rec.P50("exec.rows_in_per_row_out"), "ratio"},
      {"exec.parallel_speedup", rec.ParallelSpeedup(), "ratio"},
      {"exec.sched_queue_wait_us",
       Ratio(c1.sched_wait_us - c0.sched_wait_us, tasks), "us"},
      {"exec.sched_task_run_us", Ratio(c1.sched_run_us - c0.sched_run_us, tasks),
       "us"},
      {"storage.columnar_build_us", rec.P50("storage.columnar_build_us"), "us"},
      {"server.session_overhead_us", rec.P50("server.session_overhead_us"),
       "us"},
      {"common.unattributed_us", rec.Unattributed(), "us"},
      {"common.memory_high_water_mb",
       static_cast<double>(env->db->memory_tracker().high_water()) /
           (1024.0 * 1024.0),
       "MB"},
      {"trace.statement_p50_ms", Median(traced_ms), "ms"},
      {"trace.untraced_p50_ms", Median(untraced_ms), "ms"},
  };
  for (const std::string& s : report.samples) {
    std::fprintf(stderr, "oracle: %s\n", s.c_str());
  }
  int64_t attempted = static_cast<int64_t>(all.size());
  std::string meta =
      MetaJson(opt, *wl, *env, traced_ms.size(), report, attempted,
               TemplateSummaryJson(all, templates),
               AccountingJson(rec.Accounts(), templates));
  WriteTraceFile(opt, meta, metrics, rec);
  out << meta << "\n";
  out << "{\"correct\": " << (report.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << report.failed()
      << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace perfbench
